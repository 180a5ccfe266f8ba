// Time-dependent Stokes-flow simulation (the paper's fluid problem class):
// force-driven Stokeslets advected by the velocity they induce. In Stokes
// flow there is no inertia -- positions integrate the velocity directly:
//
//     u_i = (1 / (8 pi mu)) * sum_j S_eps(x_i - x_j) f_j
//     x_i' = u_i (+ optional background settling velocity)
//
// Forces come from a user-supplied ForceModel evaluated at the current
// configuration (gravity-driven sedimentation, elastic fibers, ...).
//
// StokesSimulation is a thin facade over SimulationEngine<StokesProblem>
// (core/engine.hpp), so the fluid problem gets the IDENTICAL per-step
// balancing loop, resilience wrapper (watchdog / audit / checkpoint-
// rollback) and observability stack as the gravitational simulation --
// while exercising the ~4x-heavier M2L mix the paper highlights.
#pragma once

#include <vector>

#include "core/engine.hpp"
#include "core/problems.hpp"

namespace afmm {

struct StokesSimulationConfig : EngineConfig {
  double epsilon = 1e-3;    // regularization blob size
  double viscosity = 1.0;   // mu in the 1/(8 pi mu) mobility prefactor
};

class StokesSimulation {
 public:
  StokesSimulation(const StokesSimulationConfig& config, NodeSimulator node,
                   std::vector<Vec3> positions, ForceModel force_model);

  // Resume from a checkpoint taken by an identically configured run (the
  // force model is configuration and is not serialized). Throws
  // std::invalid_argument on a kind mismatch.
  StokesSimulation(const StokesSimulationConfig& config, NodeSimulator node,
                   const SimCheckpoint& ckpt, ForceModel force_model);

  StepRecord step() { return engine_.step_once(); }
  std::vector<StepRecord> run(int n) { return engine_.run(n); }

  const std::vector<Vec3>& positions() const {
    return engine_.problem().position_vector();
  }
  const std::vector<Vec3>& velocities() const {
    return engine_.problem().velocities();
  }
  const AdaptiveOctree& tree() const { return engine_.tree(); }
  const LoadBalancer& balancer() const { return engine_.balancer(); }
  const InteractionListCache& list_cache() const {
    return engine_.list_cache();
  }
  const FaultInjector& fault_injector() const {
    return engine_.fault_injector();
  }
  NodeSimulator& node() { return engine_.node(); }
  int steps_taken() const { return engine_.steps_taken(); }

  // Observability sinks (null when the corresponding ObsConfig flag is off);
  // same contract as GravitySimulation.
  TraceRecorder* trace() { return engine_.trace(); }
  const TraceRecorder* trace() const { return engine_.trace(); }
  MetricsRegistry* metrics() { return engine_.metrics(); }
  const MetricsRegistry* metrics() const { return engine_.metrics(); }
  double virtual_now() const { return engine_.virtual_now(); }

  SimCheckpoint checkpoint() const { return engine_.checkpoint(); }
  void restore(const SimCheckpoint& ckpt) { engine_.restore(ckpt); }

  // Resilience surface (engine-provided, identical to the gravity facade).
  AuditReport run_audit() const { return engine_.run_audit(); }
  int rollbacks() const { return engine_.rollbacks(); }
  // Rollbacks reached through the SDC escalation ladder specifically.
  int sdc_rollbacks() const { return engine_.sdc_rollbacks(); }
  const CheckpointStore* store() const { return engine_.store(); }

  // Chaos hook: silent tree corruption for auditor/recovery tests.
  void corrupt_tree_for_test() { engine_.corrupt_tree_for_test(); }

 private:
  StokesEngine engine_;
};

}  // namespace afmm
