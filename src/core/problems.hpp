// The two Problem policies the SimulationEngine is instantiated with (see
// core/engine.hpp for the policy contract).
//
// GravityProblem -- the paper's N-body problem class. Kick-drift-kick
// leapfrog: pre_solve applies the half kick + drift with the previous
// solve's accelerations, solve runs the gravitational AFMM, post_solve
// refreshes the accelerations and applies the closing half kick.
//
// StokesProblem -- the paper's fluid problem class (~4x-heavier M2L mix).
// Stokes flow has no inertia: pre_solve is a no-op (positions already moved
// at the end of the previous step), solve evaluates the ForceModel at the
// current configuration and runs the Stokeslet AFMM, post_solve scales the
// induced velocity by the 1/(8 pi mu) mobility and advects the positions.
//
// Both problems prime their state with an initial_solve at construction, so
// the engine's first step already has an observation for the balancer to
// digest -- the two workloads walk the identical Observation/Search/
// Incremental machinery from step 0.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "dist/distributions.hpp"
#include "state/auditor.hpp"

namespace afmm {

class GravityProblem {
 public:
  static constexpr SimKind kKind = SimKind::kGravity;
  static constexpr const char* kName = "gravity";
  // Right-hand sides of the far field: the masses.
  static constexpr int kRhs = 1;

  // Throws std::invalid_argument when softening is 0 and two bodies share a
  // position: the unsoftened kernel is singular there.
  GravityProblem(const FmmConfig& fmm, double grav_const, double softening,
                 NodeSimulator node, ParticleSet bodies);

  NodeSimulator& node() { return solver_->node(); }
  const NodeSimulator& node() const { return solver_->node(); }
  void set_list_cache(InteractionListCache* cache) {
    solver_->set_list_cache(cache);
  }
  std::span<const Vec3> positions() const { return bodies_.positions; }
  std::size_t size() const { return bodies_.size(); }

  SolveOutcome initial_solve(const AdaptiveOctree& tree);
  void pre_solve(double dt);
  SolveOutcome solve(const AdaptiveOctree& tree);
  void post_solve(double dt);

  void save_state(SimCheckpoint& ckpt) const;
  void load_state(const SimCheckpoint& ckpt);
  void audit_state(const AuditConfig& audit, AuditReport& report) const;

  const ParticleSet& bodies() const { return bodies_; }

  // Total energy (kinetic + potential) from the last solve; a diagnostic
  // for the integrator tests. Uses the softened potential.
  double total_energy() const;

  // Chaos hook: NaN one stored acceleration (the sampled-force audit trips).
  void corrupt_force_for_test(std::size_t i);

  // Chaos hook: flip one mantissa bit of one stored velocity WITHOUT
  // refreshing the state checksum -- primary-state corruption the derived
  // repair rung cannot fix, so the engine's ladder must escalate.
  void corrupt_velocity_for_test(std::size_t i);

  // --- SDC surface (sdc/) -------------------------------------------------
  // kBitFlip: flip one bit of one stored acceleration component. Applied by
  // the engine AFTER post_solve refreshed the state checksum, so the very
  // next audit sees the mismatch.
  void apply_sdc_bit_flip(std::uint64_t seed);
  // Repair rung for derived state: re-derive accelerations + potential from
  // the intact positions/masses by re-solving on `tree` (bit-exact: the
  // same deterministic solve post_solve consumed). Velocities/positions are
  // primary state and cannot be re-derived; if corruption hit them the
  // subsequent re-audit still fails and the engine escalates to rollback.
  bool repair_derived(const AdaptiveOctree& tree);

 private:
  std::uint64_t compute_state_checksum() const;
  void refresh_state_checksum() { state_checksum_ = compute_state_checksum(); }
  // Behind a unique_ptr because the solver's ExpansionContext is not
  // address-stable (LaplaceDerivatives references a sibling member), while
  // Problems are moved into the engine at construction.
  std::unique_ptr<GravitySolver> solver_;
  double grav_const_;
  double softening_;
  ParticleSet bodies_;
  std::vector<Vec3> accel_;
  std::vector<double> potential_;
  // The solve result between solve() and post_solve() of one step.
  std::optional<GravityResult> pending_;
  // FNV checksum of the full body state, refreshed whenever the problem
  // finishes writing it (initial_solve / post_solve / load_state); any
  // later flipped bit makes audit_state's recomputation mismatch.
  std::uint64_t state_checksum_ = 0;
};

// Writes the per-body forces for the current positions into `forces`.
using ForceModel =
    std::function<void(std::span<const Vec3> positions, std::span<Vec3> forces)>;

// Constant body force (e.g. gravity on a sedimenting suspension).
ForceModel constant_force(const Vec3& f);

class StokesProblem {
 public:
  static constexpr SimKind kKind = SimKind::kStokes;
  static constexpr const char* kName = "Stokes";
  // Right-hand sides of the far field: f_x, f_y, f_z and y.f.
  static constexpr int kRhs = 4;

  // Throws std::invalid_argument when epsilon is 0 and two bodies share a
  // position: the unregularized Stokeslet is singular there.
  StokesProblem(const FmmConfig& fmm, double epsilon, double viscosity,
                NodeSimulator node, std::vector<Vec3> positions,
                ForceModel force_model);

  NodeSimulator& node() { return solver_->node(); }
  const NodeSimulator& node() const { return solver_->node(); }
  void set_list_cache(InteractionListCache* cache) {
    solver_->set_list_cache(cache);
  }
  std::span<const Vec3> positions() const { return positions_; }
  std::size_t size() const { return positions_.size(); }

  SolveOutcome initial_solve(const AdaptiveOctree& tree);
  void pre_solve(double dt);
  SolveOutcome solve(const AdaptiveOctree& tree);
  void post_solve(double dt);

  void save_state(SimCheckpoint& ckpt) const;
  void load_state(const SimCheckpoint& ckpt);
  void audit_state(const AuditConfig& audit, AuditReport& report) const;

  const std::vector<Vec3>& position_vector() const { return positions_; }
  const std::vector<Vec3>& velocities() const { return velocities_; }

  // --- SDC surface (sdc/), mirroring GravityProblem ----------------------
  // kBitFlip: flip one bit of one stored velocity component.
  void apply_sdc_bit_flip(std::uint64_t seed);
  // Repair rung: the raw solver output of the step's solve is retained
  // (last_u_), so corrupted velocities are re-derived by re-applying the
  // identical mobility scale -- bit-exact without re-solving. Positions are
  // primary state; corruption there escalates.
  bool repair_derived(const AdaptiveOctree& tree);

 private:
  SolveOutcome run_solver(const AdaptiveOctree& tree);
  std::uint64_t compute_state_checksum() const;
  void refresh_state_checksum() { state_checksum_ = compute_state_checksum(); }

  std::unique_ptr<StokesletSolver> solver_;  // see GravityProblem::solver_
  double epsilon_;
  double viscosity_;
  ForceModel force_model_;
  std::vector<Vec3> positions_;
  std::vector<Vec3> velocities_;
  std::vector<Vec3> forces_;
  std::optional<StokesletResult> pending_;
  // Raw induced velocities of the last solve (before the mobility scale):
  // the repair ground truth for velocities_.
  std::vector<Vec3> last_u_;
  // Positions the last solve ran at (post_solve advects positions_ away from
  // them); the sampled direct-sum audit must evaluate at these.
  std::vector<Vec3> last_solve_positions_;
  std::uint64_t state_checksum_ = 0;
};

// The engine is explicitly instantiated for both problems in engine.cpp.
extern template class SimulationEngine<GravityProblem>;
extern template class SimulationEngine<StokesProblem>;

using GravityEngine = SimulationEngine<GravityProblem>;
using StokesEngine = SimulationEngine<StokesProblem>;

}  // namespace afmm
