// Chaos-recovery experiment: inject one fault class at a time into a settled
// balancer loop and measure how many steps the full strategy needs to bring
// the compute time back into the 5% band of the degraded machine's steady
// state.
//
// Timeline (W = --window steps per segment, default 40):
//
//   0        warm-up on the healthy 2-GPU machine
//   1W       GPU 0 thermally throttled to 40% clock
//   2W       GPU 0 clock restored
//   3W       GPU 0 lost (near field continues on GPU 1 alone)
//   4W       GPU 0 recovered
//   5W       transient transfer-fault window (fail_prob 0.5, W/2 steps)
//   6W       6 of the CPU cores preempted by a co-tenant
//   7W       preempted cores restored
//   8W       end
//
// Per-step series mirror to chaos_recovery.csv; the per-fault summary
// (steps until re-entry into the 5% band) to chaos_recovery_summary.csv.
// Everything is deterministic: same seed, same trajectory, every run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "faults/fault_injector.hpp"
#include "util/rng.hpp"

using namespace afmm;
using namespace afmm::bench;

namespace {

struct Segment {
  const char* name;
  int start = 0;  // first step of the segment
};

}  // namespace

int main(int argc, char** argv) {
  const long n = arg_or(argc, argv, "n", 20000);
  const int order = static_cast<int>(arg_or(argc, argv, "order", 4));
  const int W = static_cast<int>(arg_or(argc, argv, "window", 40));
  const long seed = arg_or(argc, argv, "seed", 0x5eed);
  const std::string out = out_dir(argc, argv);
  validate_args(argc, argv);
  const int steps = 8 * W;

  Rng rng(61);
  auto set = uniform_cube(static_cast<std::size_t>(n), rng, {0.5, 0.5, 0.5},
                          0.5);

  NodeSimulator node(system_a_cpu(10), GpuSystemConfig::uniform(2));
  ExpansionContext ctx(order);

  FaultSchedule sched;
  sched.gpu_throttle(1 * W, 0, 0.4)
      .gpu_throttle(2 * W, 0, 1.0)
      .gpu_loss(3 * W, 0)
      .gpu_recovery(4 * W, 0)
      .transfer_faults(5 * W, 0.5, W / 2)
      .cpu_preemption(6 * W, 6)
      .cpu_restore(7 * W);
  FaultInjector injector(sched, static_cast<std::uint64_t>(seed));

  const Segment segments[] = {
      {"warmup", 0},          {"gpu_throttle", 1 * W}, {"clock_restore", 2 * W},
      {"gpu_loss", 3 * W},    {"gpu_recovery", 4 * W}, {"transfer_faults", 5 * W},
      {"cpu_preempt", 6 * W}, {"cpu_restore", 7 * W},
  };
  const int nseg = static_cast<int>(std::size(segments));

  LoadBalancerConfig lb_cfg;
  lb_cfg.strategy = LbStrategy::kFull;
  lb_cfg.initial_S = 64;
  LoadBalancer balancer(lb_cfg, TraversalConfig{});
  AdaptiveOctree tree;
  TreeConfig tc;
  tc.root_center = {0.5, 0.5, 0.5};
  tc.root_half = 0.5;
  tc.leaf_capacity = lb_cfg.initial_S;
  tree.build(set.positions, tc);

  std::printf("Chaos recovery: %ld bodies, 2-GPU system A, %d steps "
              "(%d per segment), schedule seed %ld.\n",
              n, steps, W, seed);

  struct Row {
    double compute, far, near;
    int S, alive, cores, retries;
    double capability;
    bool shift;
    const char* state;
  };
  std::vector<Row> rows;

  for (int step = 0; step < steps; ++step) {
    injector.advance_to(step, node.health());
    const auto obs = observe_tree(tree, node, ctx);
    const auto r = balancer.post_step(tree, set.positions, obs, node);
    rows.push_back({obs.compute_seconds(), obs.far_seconds(),
                    obs.near_seconds(), r.S, node.health().num_alive_gpus(),
                    node.effective_cores(), obs.transfer_retries,
                    node.health().total_gpu_capability(), r.capability_shift,
                    to_string(r.state_after)});
  }

  // ---- per-step series ----------------------------------------------------
  Table series({"step", "compute_s", "far_s", "near_s", "S", "state",
                "alive_gpus", "gpu_capability", "eff_cores",
                "transfer_retries", "capability_shift"});
  series.mirror_csv(out + "/chaos_recovery.csv");
  const int stride = std::max(1, steps / 64);
  for (int i = 0; i < steps; ++i) {
    // Keep fault boundaries and shift steps even when subsampling.
    const bool boundary = i % W == 0 || rows[i].shift;
    if (i % stride != 0 && !boundary && i + 1 != steps) continue;
    series.add_row({Table::integer(i), Table::num(rows[i].compute),
                    Table::num(rows[i].far), Table::num(rows[i].near),
                    Table::integer(rows[i].S), rows[i].state,
                    Table::integer(rows[i].alive),
                    Table::num(rows[i].capability, 2),
                    Table::integer(rows[i].cores),
                    Table::integer(rows[i].retries),
                    Table::integer(rows[i].shift ? 1 : 0)});
  }
  series.print("chaos recovery | per-step series "
               "(full series in chaos_recovery.csv)");

  // ---- recovery summary ---------------------------------------------------
  // For each segment: the steady compute time is the median of the last 5
  // steps before the next fault; recovery = steps until the series first
  // enters steady * (1 + band).
  Table summary({"fault", "step", "steady_s", "worst_s", "steps_to_band",
                 "shifts"});
  summary.mirror_csv(out + "/chaos_recovery_summary.csv");
  for (int s = 0; s < nseg; ++s) {
    const int lo = segments[s].start;
    const int hi = s + 1 < nseg ? segments[s + 1].start : steps;
    std::vector<double> tail;
    for (int i = std::max(lo, hi - 5); i < hi; ++i)
      tail.push_back(rows[i].compute);
    const double steady = p50(std::move(tail));
    const double band = steady * (1.0 + LoadBalancer::kBand);
    int to_band = -1;
    double worst = 0.0;
    int shifts = 0;
    for (int i = lo; i < hi; ++i) {
      worst = std::max(worst, rows[i].compute);
      shifts += rows[i].shift ? 1 : 0;
      if (to_band < 0 && rows[i].compute <= band) to_band = i - lo;
    }
    summary.add_row({segments[s].name, Table::integer(lo), Table::num(steady),
                     Table::num(worst), Table::integer(to_band),
                     Table::integer(shifts)});
  }
  summary.print("chaos recovery | steps until compute re-enters the 5% band "
                "of each segment's steady state");
  return 0;
}
