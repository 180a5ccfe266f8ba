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

CpuModelConfig with_cores(CpuModelConfig cpu, int cores) {
  cpu.num_cores = cores;
  return cpu;
}

// Per-operation flops of one node's sweep tasks. up()/down() sum their
// addends in the exact order the historical builder accumulated them, so
// task durations stay bitwise identical across the serialized and overlap
// graphs.
struct NodeSweepFlops {
  double p2m = 0.0, m2m = 0.0;             // up-sweep
  double m2l = 0.0, l2l = 0.0, l2p = 0.0;  // down-sweep
  double up() const { return p2m + m2m; }
  double down() const { return l2p + m2l + l2l; }
};

// Work per node: leaf -> P2M and L2P over its bodies; every node -> its M2L
// list; nonroot -> one M2M into the parent and one L2L from it (both run
// after the child's own subtree and are charged on the child's tasks).
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
    f.m2m = passes * ctx.flops_m2m();
    f.l2l = passes * ctx.flops_l2l();
  }
  return f;
}

// One nonempty effective-tree node; `parent` is the parent's index in the
// same list (-1 at the root).
struct SweepNode {
  int id = -1;
  int parent = -1;
  NodeSweepFlops flops;
};

// The nonempty effective-tree nodes in preorder, collected once per
// observation. The serialized sweeps, the op totals and the overlap DAG all
// read this list, and a node's index in it is its task id in each sweep
// graph.
std::vector<SweepNode> sweep_nodes(const ExpansionContext& ctx,
                                   const AdaptiveOctree& tree,
                                   const InteractionLists& lists,
                                   int m2l_passes) {
  const double passes = static_cast<double>(m2l_passes);
  std::vector<SweepNode> out;
  auto visit = [&](auto&& self, int id, int parent) -> void {
    const OctreeNode& n = tree.node(id);
    if (n.count == 0) return;
    const int at = static_cast<int>(out.size());
    out.push_back({id, parent, node_sweep_flops(ctx, tree, lists, id, passes)});
    if (!tree.is_effective_leaf(id))
      for (int c : n.children) self(self, c, at);
  };
  if (!tree.empty()) visit(visit, tree.root(), -1);
  return out;
}

// The serialized far field on `cpu.num_cores` cores: the up-sweep graph
// (edges child -> parent) and then the down-sweep graph (parent -> child),
// a barrier between them, plus the per-op totals and counts.
ObservedStepTimes far_field(const std::vector<SweepNode>& nodes,
                            const AdaptiveOctree& tree,
                            const InteractionLists& lists,
                            const CpuModelConfig& cpu) {
  ObservedStepTimes t;
  const int p = cpu.num_cores;
  TaskGraphSim up;
  TaskGraphSim down;
  for (const SweepNode& s : nodes) {
    const NodeSweepFlops& f = s.flops;
    t.t_p2m += cpu.task_seconds(f.p2m, p);
    t.t_l2p += cpu.task_seconds(f.l2p, p);
    t.t_m2l += cpu.task_seconds(f.m2l, p);
    t.t_m2m += cpu.task_seconds(f.m2m, p);
    t.t_l2l += cpu.task_seconds(f.l2l, p);
    const int task = up.add_task(cpu.task_seconds(f.up(), p));
    down.add_task(cpu.task_seconds(f.down(), p));
    if (s.parent >= 0) {
      up.add_dependency(task, s.parent);
      down.add_dependency(s.parent, task);
    }
  }
  const double ov = cpu.task_overhead_us * 1e-6;
  const double up_makespan = nodes.empty() ? 0.0 : up.makespan(p, ov);
  const double down_makespan = nodes.empty() ? 0.0 : down.makespan(p, ov);
  t.cpu_seconds = up_makespan + down_makespan;
  t.counts = count_operations(tree, lists);
  return t;
}

// The merged step DAG on `cpu.num_cores` workers plus one serial lane per
// alive GPU, re-timing the work `times` already carries (its cpu_p2p_seconds
// is the fallback near field). Fills times.overlap_* and returns the
// executed schedule.
std::shared_ptr<const DagSchedule> overlap_dag(
    const std::vector<SweepNode>& nodes, const AdaptiveOctree& tree,
    const InteractionLists& lists, const GpuRunResult& gpu,
    const CpuModelConfig& cpu, ObservedStepTimes& times) {
  const int p = cpu.num_cores;
  const double ov = cpu.task_overhead_us * 1e-6;

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
    for (int i = 0; i < p; ++i)
      add_cpu(DagTaskKind::kCpuP2p, i, times.cpu_p2p_seconds);
  }

  // Merged far field: the serialized graphs' per-node task durations in one
  // graph. Up edges child -> parent, down edges parent -> child, and a cross
  // edge from each M2L source's up task into the consumer's down task (the
  // source multipole must be complete before translation). All up tasks
  // take lower ids than any down task: equal-readiness ties break toward the
  // up sweep, whose results unlock the M2L-gated down tasks (a
  // list-scheduling priority, not a barrier -- a ready down task still runs
  // the moment a worker has no up work to take).
  const int up0 = dag.num_tasks();
  for (const SweepNode& s : nodes) {
    const int task =
        add_cpu(DagTaskKind::kUp, s.id, cpu.task_seconds(s.flops.up(), p));
    if (s.parent >= 0) dag.add_dependency(task, up0 + s.parent);
  }
  const int down0 = dag.num_tasks();
  for (const SweepNode& s : nodes) {
    const int task = add_cpu(DagTaskKind::kDown, s.id,
                             cpu.task_seconds(s.flops.down(), p));
    if (s.parent >= 0) dag.add_dependency(down0 + s.parent, task);
  }
  std::vector<int> at(tree.num_nodes(), -1);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    at[nodes[i].id] = static_cast<int>(i);
  for (int id = 0; id < tree.num_nodes(); ++id) {
    if (at[id] < 0) continue;
    for (std::uint32_t e = lists.m2l_offset[id]; e < lists.m2l_offset[id + 1];
         ++e) {
      const int src = lists.m2l_sources[e];
      if (at[src] >= 0) dag.add_dependency(up0 + at[src], down0 + at[id]);
    }
  }

  auto schedule = std::make_shared<DagSchedule>();
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

}  // namespace

ObservedStepTimes NodeSimulator::simulate_far_field(
    const ExpansionContext& ctx, const AdaptiveOctree& tree,
    const InteractionLists& lists, int m2l_passes) const {
  // Preempted cores do not schedule tasks: the graph runs on what is left.
  return far_field(sweep_nodes(ctx, tree, lists, m2l_passes), tree, lists,
                   with_cores(cpu_, effective_cores()));
}

double NodeSimulator::serial_all_cpu_seconds(const ExpansionContext& ctx,
                                             const AdaptiveOctree& tree,
                                             const InteractionLists& lists,
                                             int m2l_passes) const {
  const CpuModelConfig serial = with_cores(cpu_, 1);
  const ObservedStepTimes t =
      far_field(sweep_nodes(ctx, tree, lists, m2l_passes), tree, lists, serial);
  const double p2p = serial.task_seconds(
      static_cast<double>(t.counts.p2p_interactions) * serial.p2p_flops, 1);
  return t.cpu_seconds + p2p;
}

double NodeSimulator::cpu_p2p_seconds(std::uint64_t interactions) const {
  const int p = effective_cores();
  // Direct interactions parallelize embarrassingly over target nodes, so the
  // wall clock is the contended per-core time divided by the active cores.
  return cpu_.task_seconds(static_cast<double>(interactions) * cpu_.p2p_flops,
                           p) /
         static_cast<double>(p);
}

ObservedStepTimes NodeSimulator::observe(
    const ExpansionContext& ctx, const AdaptiveOctree& tree,
    const InteractionLists& lists, const GpuRunResult& gpu, int m2l_passes,
    std::shared_ptr<const DagSchedule>* dag) const {
  const CpuModelConfig cpu = with_cores(cpu_, effective_cores());
  const auto nodes = sweep_nodes(ctx, tree, lists, m2l_passes);
  ObservedStepTimes t = far_field(nodes, tree, lists, cpu);
  if (gpu.cpu_fallback)
    t.cpu_p2p_seconds = cpu_p2p_seconds(gpu.total_interactions);
  else
    t.gpu_seconds = gpu.max_kernel_seconds;
  t.transfer_retries = gpu.timeline.retries;
  if (overlap_enabled()) {
    auto schedule = overlap_dag(nodes, tree, lists, gpu, cpu, t);
    if (dag) *dag = std::move(schedule);
  }
  return t;
}

ObservedStepTimes NodeSimulator::observe_step(const ExpansionContext& ctx,
                                              const AdaptiveOctree& tree,
                                              const InteractionLists& lists,
                                              double flops_per_interaction,
                                              int m2l_passes) const {
  return observe(ctx, tree, lists,
                 simulate_p2p_timing(tree, lists.p2p, flops_per_interaction,
                                     gpus_, &health_),
                 m2l_passes);
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
