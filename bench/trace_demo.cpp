// Observability demo: run a full simulation trajectory -- Search through
// Incremental into Observation, with a mid-run fault window and the
// resilience loop (audits + checkpoints) enabled -- and export
//
//   <out>/trace_demo.json         Chrome trace-event JSON (chrome://tracing
//                                 or https://ui.perfetto.dev)
//   <out>/trace_demo_metrics.csv  long-form per-step metrics (step,metric,value)
//
// --problem selects the workload: "gravity" (Plummer N-body, the default) or
// "stokes" (sedimenting Stokeslet blob, the paper's ~4x-heavier M2L mix).
// Both run the identical SimulationEngine stack, so the exported schema is
// the same either way -- CI's trace-smoke job validates both against
// tools/validate_trace.py.
//
// The run is fully deterministic (virtual time, fixed seeds), so the trace
// bytes are reproducible. The printed category summary shows which event
// classes the trajectory exercised.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/simulation.hpp"
#include "core/stokes_simulation.hpp"
#include "util/rng.hpp"

using namespace afmm;
using namespace afmm::bench;

namespace {

// The problem-independent demo scenario: fault window + resilience cadence.
void configure_engine(EngineConfig& cfg, int order, int steps) {
  cfg.fmm.order = order;
  cfg.tree.root_center = {0, 0, 0};
  cfg.tree.root_half = 8.0;
  cfg.balancer.initial_S = 64;
  cfg.dt = 1e-3;
  // Fault window: GPU 0 throttles mid-run (a capability shift the balancer
  // must detect), then recovers; a short transfer-fault burst follows.
  const int w = steps / 4;
  cfg.faults.gpu_throttle(1 * w, 0, 0.3)
      .gpu_throttle(2 * w, 0, 1.0)
      .transfer_faults(3 * w, 0.5, w / 2);
  // Resilience on, so the trace also carries audit / checkpoint markers.
  cfg.resilience.checkpoint_interval = steps / 6;
  cfg.resilience.audit.interval = steps / 12;
  // Observability: trace + metrics (virtual time only, so the output is a
  // deterministic function of the seeds above).
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
}

// Run, summarize and export; works on either facade (both expose the
// engine's obs surface).
template <class Sim>
int run_and_export(Sim& sim, int steps, const std::string& out) {
  const auto records = sim.run(steps);

  Table summary({"category", "events"});
  const char* cats[] = {"step",     "tree",  "balancer", "expansion",
                        "p2p",      "transfer", "fault", "state"};
  for (const char* cat : cats) {
    long long count = 0;
    for (const auto& e : sim.trace()->events())
      if (e.cat == cat) ++count;
    summary.add_row({cat, Table::integer(count)});
  }
  summary.print("trace demo | events per category");

  const std::string trace_path = out + "/trace_demo.json";
  const std::string metrics_path = out + "/trace_demo_metrics.csv";
  const bool trace_ok = sim.trace()->write_json_file(trace_path);
  const bool metrics_ok = sim.metrics()->write_csv_file(metrics_path);
  std::printf("\n%zu trace events over %.3f virtual seconds -> %s%s\n",
              sim.trace()->size(), sim.virtual_now(), trace_path.c_str(),
              trace_ok ? "" : " (WRITE FAILED)");
  std::printf("%zu metric rows -> %s%s\n", sim.metrics()->rows().size(),
              metrics_path.c_str(), metrics_ok ? "" : " (WRITE FAILED)");
  std::printf("open the trace in chrome://tracing or ui.perfetto.dev\n");

  // Exercised-trajectory sanity: the demo is only useful if the balancer
  // actually walked its states and the faults actually fired.
  int shifts = 0, faults = 0, checkpoints = 0;
  for (const auto& r : records) {
    shifts += r.capability_shift ? 1 : 0;
    faults += r.faults_fired;
    checkpoints += r.checkpointed ? 1 : 0;
  }
  std::printf("trajectory: %d faults fired, %d capability shifts, "
              "%d checkpoints, final S=%d (%s)\n",
              faults, shifts, checkpoints, records.back().S,
              to_string(records.back().state));
  return (trace_ok && metrics_ok) ? 0 : 1;
}

int run_gravity(long n, int order, int steps, const std::string& out) {
  Rng rng(2013);
  PlummerOptions opt;
  opt.scale_radius = 1.0;
  opt.max_radius = 8.0;
  auto set = plummer(static_cast<std::size_t>(n), rng, opt);

  SimulationConfig cfg;
  configure_engine(cfg, order, steps);
  NodeSimulator node(system_a_cpu(10), GpuSystemConfig::uniform(2));
  GravitySimulation sim(cfg, std::move(node), std::move(set));
  return run_and_export(sim, steps, out);
}

int run_stokes(long n, int order, int steps, const std::string& out) {
  Rng rng(2013);
  std::vector<Vec3> pos;
  pos.reserve(static_cast<std::size_t>(n));
  while (pos.size() < static_cast<std::size_t>(n)) {
    Vec3 p{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (norm2(p) <= 1.0) pos.push_back(Vec3{0, 0, 3} + 2.0 * p);
  }

  StokesSimulationConfig cfg;
  configure_engine(cfg, order, steps);
  cfg.epsilon = 0.05;
  cfg.viscosity = 1.0;
  NodeSimulator node(system_a_cpu(10), GpuSystemConfig::uniform(2));
  StokesSimulation sim(cfg, std::move(node), std::move(pos),
                       constant_force({0, 0, -1}));
  return run_and_export(sim, steps, out);
}

}  // namespace

int main(int argc, char** argv) {
  const long n = arg_or(argc, argv, "n", 2000);
  const int order = static_cast<int>(arg_or(argc, argv, "order", 3));
  const int steps = static_cast<int>(arg_or(argc, argv, "steps", 48));
  const std::string problem =
      arg_choice(argc, argv, "problem", {"gravity", "stokes"});
  const std::string out = out_dir(argc, argv);
  validate_args(argc, argv);

  std::printf("trace demo: %s, %ld bodies, order %d, %d steps, "
              "2-GPU system A\n",
              problem.c_str(), n, order, steps);
  return problem == "stokes" ? run_stokes(n, order, steps, out)
                             : run_gravity(n, order, steps, out);
}
