// Time-dependent gravitational simulation driving the AFMM + load balancer.
//
// Integration is kick-drift-kick leapfrog. Each step:
//
//   1. kick (half) + drift using the acceleration of the previous solve
//   2. rebin the moved bodies into the existing tree structure
//   3. hand the previous step's observed times to the load balancer, which
//      may rebuild the tree with a new S, Enforce_S it, or fine-tune it
//   4. solve the AFMM on the (possibly modified) tree
//   5. kick (half)
//
// Per-step records carry everything Figs. 8/9 and Table II report: compute
// time, load-balancing time, the S in force, and the balancer state.
//
// GravitySimulation is a thin facade over SimulationEngine<GravityProblem>
// (core/engine.hpp): the step loop, resilience wrapper (watchdog / audit /
// checkpoint-rollback) and observability emission are the problem-generic
// engine's; only the leapfrog physics is gravity's own (core/problems.hpp).
#pragma once

#include <vector>

#include "core/engine.hpp"
#include "core/problems.hpp"

namespace afmm {

struct SimulationConfig : EngineConfig {
  double grav_const = 1.0;
  double softening = 1e-3;
};

class GravitySimulation {
 public:
  GravitySimulation(const SimulationConfig& config, NodeSimulator node,
                    ParticleSet bodies);

  // Resume from a checkpoint: the simulation continues the EXACT trajectory
  // the checkpointed run would have produced (config and node must match the
  // original run's). Throws std::invalid_argument on a kind mismatch.
  GravitySimulation(const SimulationConfig& config, NodeSimulator node,
                    const SimCheckpoint& ckpt);

  // Advance one time step; returns its record. With resilience enabled the
  // step is watchdog-guarded, audited on the configured cadence, and
  // checkpointed / rolled back as needed.
  StepRecord step() { return engine_.step_once(); }

  // Run `n` steps, collecting records.
  std::vector<StepRecord> run(int n) { return engine_.run(n); }

  const ParticleSet& bodies() const { return engine_.problem().bodies(); }
  const AdaptiveOctree& tree() const { return engine_.tree(); }
  const LoadBalancer& balancer() const { return engine_.balancer(); }
  const FaultInjector& fault_injector() const {
    return engine_.fault_injector();
  }
  // Mutable machine health, for tests and benches that poke faults directly.
  NodeSimulator& node() { return engine_.node(); }
  int steps_taken() const { return engine_.steps_taken(); }

  // The interaction-list cache shared by the solver and the balancer: one
  // traversal per structure change, zero when the structure is stable.
  const InteractionListCache& list_cache() const {
    return engine_.list_cache();
  }

  // Observability sinks (null when the corresponding ObsConfig flag is off).
  TraceRecorder* trace() { return engine_.trace(); }
  const TraceRecorder* trace() const { return engine_.trace(); }
  MetricsRegistry* metrics() { return engine_.metrics(); }
  const MetricsRegistry* metrics() const { return engine_.metrics(); }
  // Accumulated virtual (simulated) seconds of all steps taken; advances
  // only while observability is enabled (it exists for the trace timeline).
  double virtual_now() const { return engine_.virtual_now(); }

  // Total energy (kinetic + potential) from the last solve; a diagnostic
  // for the integrator tests. Uses the softened potential.
  double total_energy() const { return engine_.problem().total_energy(); }

  // --- checkpoint / restore / recovery -------------------------------------

  // Complete snapshot of the current state (see state/checkpoint.hpp).
  SimCheckpoint checkpoint() const { return engine_.checkpoint(); }
  // Adopt a snapshot wholesale (same config/node as the run that took it).
  void restore(const SimCheckpoint& ckpt) { engine_.restore(ckpt); }

  // The full invariant audit the resilience loop runs (also callable
  // directly, e.g. by tests and benches).
  AuditReport run_audit() const { return engine_.run_audit(); }

  // Rollbacks performed so far, and the on-disk store when one is configured.
  int rollbacks() const { return engine_.rollbacks(); }
  // Rollbacks reached through the SDC escalation ladder specifically.
  int sdc_rollbacks() const { return engine_.sdc_rollbacks(); }
  const CheckpointStore* store() const { return engine_.store(); }

  // Chaos hooks: silent state corruption for auditor/recovery tests.
  void corrupt_force_for_test(std::size_t i) {
    engine_.problem().corrupt_force_for_test(i);
  }
  void corrupt_velocity_for_test(std::size_t i) {
    engine_.problem().corrupt_velocity_for_test(i);
  }
  void corrupt_tree_for_test() { engine_.corrupt_tree_for_test(); }

 private:
  GravityEngine engine_;
};

}  // namespace afmm
