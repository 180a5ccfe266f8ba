// Overlap-execution ablation: the data-driven task-DAG step executor
// (DESIGN.md section 14) against the paper's bulk-synchronous timeline, on
// one gravity workload with nontrivial far-field work. Three exit gates:
//
//   gate A  physics is read-only. With the balancer pinned (static strategy,
//           degenerate Search bracket) the overlap-on run's trajectory is
//           bit-identical to the overlap-off run's -- only the *.seconds
//           series may change (and must, somewhere, or the ablation ran
//           nothing).
//
//   gate B  overlap is a real win, not a re-labeling. On the same workload
//           at several leaf capacities, the event-driven makespan sits
//           strictly below the serialized gpusim/transfer.hpp timeline it
//           replaces -- launch + max(CPU far, upload + kernel) + blocking
//           download -- because the DAG streams each lane's gather
//           concurrently with the far-field tail and relaxes the
//           inter-sweep barrier, instead of parking the host in a blocking
//           cudaMemcpy after the traversal.
//
//   gate C  the overlap-aware cost model steers the balancer at least as
//           well as the serialized one when steps execute under overlap.
//           Two full-strategy runs, both executing the DAG; one optimizes
//           the event-driven makespan (overlap_aware = true, the default),
//           the ablation arm scores the serialized max(CPU, GPU). The
//           aware arm's steady-state executed step time must not exceed the
//           ablation arm's.
//
// Artifacts (under --out, default ./results):
//
//   ablation_overlap.csv           per-step series of both gate-C arms
//   ablation_overlap_trace.json    Chrome trace of the aware arm, incl. the
//                                  per-worker "dag cpu<k>" / "dag gpu<k>"
//                                  tracks (tools/validate_trace.py --overlap)
//   ablation_overlap_metrics.csv   long-form metrics incl. step.overlap_*
//
// Exit status is nonzero if any gate fails -- CI runs this as a smoke test.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/problems.hpp"
#include "util/rng.hpp"

using namespace afmm;
using namespace afmm::bench;

namespace {

EngineConfig base_config(int order, int initial_s, bool obs) {
  EngineConfig cfg;
  cfg.fmm.order = order;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.balancer.initial_S = initial_s;
  cfg.dt = 1e-4;
  cfg.obs.trace = obs;
  cfg.obs.metrics = obs;
  return cfg;
}

GravityProblem make_problem(const EngineConfig& cfg, long n,
                            OverlapMode mode) {
  Rng rng(2026);
  PlummerOptions opt;
  opt.scale_radius = 1.0;
  opt.max_radius = 8.0;
  auto set = plummer(static_cast<std::size_t>(n), rng, opt);
  NodeSimulator node(system_a_cpu(12), GpuSystemConfig::uniform(2));
  node.set_overlap(mode);  // explicit pin: the env cannot flip an arm
  return GravityProblem(cfg.fmm, 1.0, 1e-3, std::move(node), std::move(set));
}

bool same_bodies(const ParticleSet& a, const ParticleSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a.positions[i] == b.positions[i] &&
          a.velocities[i] == b.velocities[i]))
      return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const long n = arg_or(argc, argv, "n", 8000);
  const int order = static_cast<int>(arg_or(argc, argv, "order", 4));
  const int steps = static_cast<int>(arg_or(argc, argv, "steps", 30));
  const int tail = static_cast<int>(arg_or(argc, argv, "tail", 10));
  const std::string out = out_dir(argc, argv);
  validate_args(argc, argv);

  std::printf(
      "overlap ablation: %ld bodies (Plummer), order %d, %d steps, "
      "gate-C tail %d\n\n",
      n, order, steps, tail);

  // ---- gate A: pinned balancer, overlap off vs on --------------------------
  EngineConfig pin_cfg = base_config(order, 64, /*obs=*/false);
  pin_cfg.balancer.strategy = LbStrategy::kStatic;
  pin_cfg.balancer.min_S = pin_cfg.balancer.initial_S;
  pin_cfg.balancer.max_S = pin_cfg.balancer.initial_S;

  GravityEngine off(pin_cfg, make_problem(pin_cfg, n, OverlapMode::kOff));
  GravityEngine on(pin_cfg, make_problem(pin_cfg, n, OverlapMode::kOn));

  bool seconds_changed = false;
  bool fallback_seen = false;
  for (int i = 0; i < steps; ++i) {
    const StepRecord a = off.step_once();
    const StepRecord b = on.step_once();
    seconds_changed |= a.compute_seconds != b.compute_seconds;
    fallback_seen |= a.cpu_fallback || b.cpu_fallback;
  }
  const bool identical =
      same_bodies(off.problem().bodies(), on.problem().bodies());
  const bool gate_a = identical && seconds_changed && !fallback_seen;
  std::printf(
      "gate A (read-only physics): trajectories %s, compute series %s\n",
      identical ? "bit-identical" : "DIVERGED",
      seconds_changed ? "changed" : "NEVER CHANGED");

  // ---- gate B: overlap strictly below the serialized timeline --------------
  // Machine-layer sweep over leaf capacities on the initial body set. The
  // serialized baseline is exactly the transfer.hpp protocol the DAG
  // replaces: launch + max(CPU far, upload + kernel) + blocking gather.
  bool gate_b = true;
  {
    Rng rng(2026);
    PlummerOptions opt;
    opt.scale_radius = 1.0;
    opt.max_radius = 8.0;
    const auto set = plummer(static_cast<std::size_t>(n), rng, opt);
    NodeSimulator node(system_a_cpu(12), GpuSystemConfig::uniform(2));
    node.set_overlap(OverlapMode::kOn);
    const ExpansionContext ctx(order);
    std::printf("gate B (honest win):        serialized timeline = launch + "
                "max(CPU far, upload + kernel) + download\n");
    for (const int s : {64, 128, 256, 512}) {
      TreeConfig tc;
      tc.root_center = {0, 0, 0};
      tc.root_half = 8.0;
      tc.leaf_capacity = s;
      AdaptiveOctree tree;
      tree.build(set.positions, tc);
      const auto lists = build_interaction_lists(tree, {});
      const auto gpu = simulate_p2p_timing(tree, lists.p2p, 20.0, node.gpus(),
                                           &node.health());
      if (gpu.cpu_fallback) {
        gate_b = false;
        std::printf("  S=%-4d UNEXPECTED CPU FALLBACK\n", s);
        continue;
      }
      const ObservedStepTimes t = node.observe(ctx, tree, lists, gpu, 1);
      const double serialized = gpu.timeline.step_seconds(t.cpu_seconds);
      const bool below = t.cpu_seconds > 0.0 && t.gpu_seconds > 0.0 &&
                         t.overlap_seconds < serialized;
      gate_b &= below;
      std::printf(
          "  S=%-4d overlap %.6fs vs serialized %.6fs (far %.6fs, kernel "
          "%.6fs) -> %s\n",
          s, t.overlap_seconds, serialized, t.cpu_seconds, t.gpu_seconds,
          below ? "below" : "NOT BELOW");
    }
  }

  // ---- gate C: overlap-aware vs serialized objective, both executing -------
  EngineConfig aware_cfg = base_config(order, 16, /*obs=*/true);
  aware_cfg.balancer.overlap_aware = true;
  GravityEngine aware(aware_cfg, make_problem(aware_cfg, n, OverlapMode::kOn));

  EngineConfig serial_cfg = base_config(order, 16, /*obs=*/false);
  serial_cfg.balancer.overlap_aware = false;
  GravityEngine serial(serial_cfg,
                       make_problem(serial_cfg, n, OverlapMode::kOn));

  Table table({"step", "S_aware", "compute_aware", "S_serial",
               "compute_serial", "far_serial", "gpu_serial"});
  table.mirror_csv(out + "/ablation_overlap.csv");
  double tail_aware = 0.0;
  double tail_serial = 0.0;
  for (int i = 0; i < steps; ++i) {
    const StepRecord ra = aware.step_once();
    const StepRecord rs = serial.step_once();
    if (i >= steps - tail) {
      tail_aware += ra.compute_seconds;
      tail_serial += rs.compute_seconds;
    }
    table.add_row({Table::integer(ra.step), Table::integer(ra.S),
                   Table::num(ra.compute_seconds, 6), Table::integer(rs.S),
                   Table::num(rs.compute_seconds, 6),
                   Table::num(rs.cpu_seconds, 6),
                   Table::num(rs.gpu_seconds, 6)});
  }
  table.print("overlap ablation | gate-C arms (full series in "
              "ablation_overlap.csv)");
  // Both arms execute the same DAG; the aware arm optimizes what it
  // executes, so its converged step time can only match or beat the arm
  // that steered by the barrier model (tiny epsilon for EWMA jitter).
  const bool gate_c = tail_aware <= tail_serial * 1.001;
  std::printf(
      "gate C (objective matters): tail executed time aware %.6fs vs "
      "serialized-model %.6fs -> %s\n",
      tail_aware, tail_serial, gate_c ? "aware <= serialized" : "REGRESSED");

  const std::string trace_path = out + "/ablation_overlap_trace.json";
  const std::string metrics_path = out + "/ablation_overlap_metrics.csv";
  const bool trace_ok =
      aware.trace() && aware.trace()->write_json_file(trace_path);
  const bool metrics_ok =
      aware.metrics() && aware.metrics()->write_csv_file(metrics_path);
  std::printf("\ntrace -> %s%s\nmetrics -> %s%s\n", trace_path.c_str(),
              trace_ok ? "" : " (WRITE FAILED)", metrics_path.c_str(),
              metrics_ok ? "" : " (WRITE FAILED)");

  const bool ok = gate_a && gate_b && gate_c && trace_ok && metrics_ok;
  if (!ok) std::fprintf(stderr, "ablation_overlap: FAILED\n");
  return ok ? 0 : 1;
}
