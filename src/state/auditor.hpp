// Runtime invariant auditor: cheap, non-fatal corruption tripwires run every
// few steps by the simulation loop (and before every checkpoint, so a
// snapshot is only ever taken of state that passed).
//
// Every audit appends human-readable violations to an AuditReport and
// leaves the decision to the caller -- the simulation reacts to a failed
// audit by rolling back to the last good checkpoint and re-entering Search;
// the tests assert the report is clean.
//
// Audit classes (tentpole list):
//   * tree structure     -- parent/child links, geometry, span tiling, body
//                           counts, permutation validity, leaf capacity vs S
//                           (with generous slack: rebin legitimately drifts)
//   * NaN/Inf sentinels  -- positions, velocities, forces, potentials
//   * cost-model sanity  -- non-negative finite coefficients, efficiency in
//                           its clamped range
//   * sampled direct sum -- a handful of bodies re-evaluated O(N) against the
//                           stored accelerations. This is a corruption
//                           tripwire (sign flips, zeroed forces, scrambled
//                           permutation), NOT an accuracy test: the tolerance
//                           sits far above the FMM truncation error.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "balance/cost_model.hpp"
#include "octree/octree.hpp"
#include "util/vec3.hpp"

namespace afmm {

struct AuditConfig {
  int interval = 0;       // steps between audits; 0 disables auditing
  int force_samples = 8;  // bodies in the sampled direct-sum audit (0 = off)
  // Momentum (Newton third law) tripwire: |sum m_i a_i| must stay below
  // tol * sum |m_i a_i|. 0 disables (the default -- FMM truncation makes the
  // force sum approximate, so the tolerance is workload-dependent).
  double momentum_rel_tol = 0.0;
};

// Sampled-force acceptance: |a_fmm - a_direct| <= tol * (|a_direct| + eps).
// Must dominate the truncation error of the configured order/theta.
inline constexpr double kForceAuditRelTol = 0.25;
// An effective leaf holding more than slack * S bodies is corrupt (a sane
// rebin drifts leaves past S, but never by orders of magnitude).
inline constexpr double kLeafCapacitySlack = 64.0;

struct AuditReport {
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
  // One-line summary for logs ("ok" or the first violation + count).
  std::string summary() const;
};

// Tree structure + (optional, S > 0) leaf-capacity audit.
void audit_tree(const AdaptiveOctree& tree, int S, double leaf_capacity_slack,
                AuditReport& report);

// NaN/Inf sentinels; `label` names the array in the violation message.
void audit_finite(std::span<const Vec3> values, const char* label,
                  AuditReport& report);
void audit_finite(std::span<const double> values, const char* label,
                  AuditReport& report);

// Learned coefficients must be finite and non-negative, parallel efficiency
// inside its clamped (0, 1] range.
void audit_cost_model(const CostModel& model, AuditReport& report);

// Sampled direct-sum force audit for the gravitational problem: re-evaluates
// `samples` evenly-strided bodies against all others (softened kernel) and
// compares G * gradient with the stored accelerations.
void audit_sampled_gravity(std::span<const Vec3> positions,
                           std::span<const double> masses,
                           std::span<const Vec3> accel, double grav_const,
                           double softening, int samples, double rel_tol,
                           AuditReport& report);

// Sampled direct-sum audit for the Stokes problem: re-evaluates `samples`
// evenly-strided bodies with the regularized Stokeslet against all others at
// the SOLVE-TIME positions/forces and compares mobility * u_direct with the
// stored velocities. Same contract as the gravity audit: a corruption
// tripwire whose tolerance dominates the truncation error.
void audit_sampled_stokes(std::span<const Vec3> solve_positions,
                          std::span<const Vec3> forces,
                          std::span<const Vec3> velocities, double mobility,
                          double epsilon, int samples, double rel_tol,
                          AuditReport& report);

// Momentum / Newton-third-law tripwire: internal pairwise forces cancel, so
// |sum m_i a_i| beyond rel_tol * sum |m_i a_i| means a corrupted
// acceleration (sign flip, zeroed block, flipped exponent bit), not physics.
void audit_momentum(std::span<const Vec3> accel, std::span<const double> masses,
                    double rel_tol, AuditReport& report);

// Full-state checksum comparison (sdc/): `computed` re-hashed now vs
// `stored` taken when the state was last written. Appends a violation naming
// both values on mismatch.
void audit_state_checksum(std::uint64_t computed, std::uint64_t stored,
                          AuditReport& report);

}  // namespace afmm
