// Program set-up shared by the workloads, the traced solve mirrors, and the
// direct-sum accuracy check.
//
// The traced run times each layer from outside, so it cannot call
// GravitySolver::solve or StokesletSolver::solve as one opaque call. The
// mirrors below spell those two functions out through the layers' public
// entry points (list cache -> far field -> P2P -> machine model) with a span
// around each call, doing the same operations in the same order. The
// traced run gates on reproducing the untraced run's fingerprint bit for
// bit, so a mirror that drifts from the program fails loudly instead of
// timing different work.
#pragma once

#include <span>
#include <vector>

#include "core/fmm_solver.hpp"
#include "harness.hpp"

namespace perfbench {

// A node of `cores` virtual cores and `gpus` GPUs with overlap execution
// pinned off, so AFMM_OVERLAP in the caller's environment cannot swap the
// measured program.
afmm::NodeSimulator make_node(int cores, int cores_per_socket, int gpus);

// Tree config with the pointer build pinned (AFMM_TREE_BUILD likewise).
afmm::TreeConfig make_tree_config(const afmm::Vec3& center, double half,
                                  int leaf_capacity);

struct GravitySolveOut {
  std::vector<double> potential;
  std::vector<afmm::Vec3> gradient;
  afmm::ObservedStepTimes times;
  afmm::GpuRunResult gpu;
  std::uint64_t m2l_pairs = 0;
  std::uint64_t p2p_interactions = 0;
};

struct StokesSolveOut {
  std::vector<afmm::Vec3> velocity;  // before the 1/(8 pi mu) mobility
  afmm::ObservedStepTimes times;
  afmm::GpuRunResult gpu;
  std::uint64_t m2l_pairs = 0;
  std::uint64_t p2p_interactions = 0;
};

// GravitySolver::solve, layer by layer (see file comment).
GravitySolveOut gravity_solve_mirror(const afmm::HarmonicFarField& far,
                                     const afmm::NodeSimulator& node,
                                     const afmm::GravityKernel& kernel,
                                     afmm::InteractionListCache& cache,
                                     const afmm::AdaptiveOctree& tree,
                                     std::span<const double> charges,
                                     afmm::OpTimers* timers, Tracer* tracer);

// StokesletSolver::solve, layer by layer.
StokesSolveOut stokes_solve_mirror(const afmm::HarmonicFarField& far,
                                   const afmm::NodeSimulator& node,
                                   const afmm::StokesletKernel& kernel,
                                   afmm::InteractionListCache& cache,
                                   const afmm::AdaptiveOctree& tree,
                                   std::span<const afmm::Vec3> forces,
                                   afmm::OpTimers* timers, Tracer* tracer);

// A seeded rigid rotation. Workloads draw one base realization of their
// problem from a fixed generator seed and let the run's --seed pick a
// rotation of it: every seed is a different input (the octree cuts it
// differently) of the same difficulty, so run-to-run spread measures the
// machine and the program rather than which realization was drawn.
class Rotation {
 public:
  // Uniformly random rotation; with `about_z_only`, a rotation about the z
  // axis (keeps a body force along z meaningful).
  Rotation(std::uint64_t seed, bool about_z_only);
  afmm::Vec3 operator()(const afmm::Vec3& v) const;

 private:
  double m_[3][3];
};

// A fresh solve of `positions` with `tc`, added with its direct sum (same
// kernel, serial per target, on up to `max_sample` evenly strided bodies) to
// `err`: every workload's accuracy check on its base problem.
void gravity_solve_error(std::span<const afmm::Vec3> positions,
                         std::span<const double> charges,
                         const afmm::TreeConfig& tc, const afmm::FmmConfig& fmm,
                         const afmm::NodeSimulator& node,
                         const afmm::GravityKernel& kernel,
                         std::size_t max_sample, ErrorAccum& err);
void stokes_solve_error(std::span<const afmm::Vec3> positions,
                        std::span<const afmm::Vec3> forces,
                        const afmm::TreeConfig& tc, const afmm::FmmConfig& fmm,
                        const afmm::NodeSimulator& node, double epsilon,
                        std::size_t max_sample, ErrorAccum& err);

// Per-operation far-field totals of a traced episode (thread seconds, raw).
void add_op_timers(const afmm::OpTimers& timers,
                   std::map<std::string, double>& layer);

}  // namespace perfbench
