// The adaptive FMM solvers.
//
// HarmonicFarField is the expansion engine: given a tree and one or more
// scalar charge vectors ("right-hand sides"), it runs P2M -> M2M, then M2L,
// then L2L -> L2P, and returns potential + gradient per body for each rhs.
// The two sweeps spawn OpenMP tasks per child with a taskwait at each
// parent, the recursive pattern of the paper's Section III.B. M2L runs
// between them as one flat pass: the nodes with a list, longest first, go
// lane_width() at a time (4 with AVX2, else 2) through
// ExpansionContext::m2l_lanes, one target node per SIMD lane, each lane
// walking its own list in order -- the lock-step, one-target-per-thread
// scheme of the paper's Section III.C kernel -- so the width moves no bit.
// The virtual clock models the paper's per-child task recursion, M2L inside
// each node's down task (cpusched/, machine/); the host's order of work
// moves no virtual time.
//
// FmmSolver<Kernel> runs the one solve pipeline around it; the two solvers
// derive from it and differ only in their inputs and field assembly:
//
// GravitySolver   : 1 rhs (masses); acceleration = G * gradient.
// StokesletSolver : 4 rhs (f_x, f_y, f_z, y.f); velocities assembled via the
//                   harmonic identity in kernels/stokeslet.hpp. This is the
//                   paper's fluid problem with ~4x the M2L cost.
//
// Near-field work is dispatched to the simulated GPU system; the returned
// ObservedStepTimes carry the virtual CPU/GPU times of the machine model.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "expansion/operators.hpp"
#include "gpusim/p2p_executor.hpp"
#include "kernels/gravity.hpp"
#include "kernels/stokeslet.hpp"
#include "machine/machine.hpp"
#include "octree/list_cache.hpp"
#include "octree/octree.hpp"
#include "octree/traversal.hpp"
#include "sdc/sdc.hpp"
#include "util/op_timers.hpp"

namespace afmm {

struct FmmConfig {
  int order = 5;  // Taylor expansion order p ("retained terms")
  TraversalConfig traversal;
  // Collect REAL wall-clock per-operation times (paper Section IV.D's
  // per-thread measurement) into the result's `real_timings`. Off by
  // default: ~2 clock reads per node-level operation. A tracing engine puts
  // them on the wall-time process; wall clocks are nondeterministic, so a
  // run whose trace must be byte-identical leaves this off.
  bool collect_real_timings = false;
  // ABFT silent-corruption detection (sdc/). All detectors default OFF;
  // armed detectors only read clean data, so fault-free solves stay
  // bit-identical with detection on or off.
  SdcDetectConfig sdc;
};

// Structural statistics of one solve, for benches and logs.
struct SolveStats {
  int nodes = 0;
  int effective_leaves = 0;
  int depth = 0;
  std::uint64_t m2l_pairs = 0;
  std::uint64_t p2p_interactions = 0;
};

class HarmonicFarField {
 public:
  explicit HarmonicFarField(const FmmConfig& config);

  const ExpansionContext& context() const { return ctx_; }
  const FmmConfig& config() const { return config_; }

  // charges[rhs][tree-ordered body]; out[rhs][tree-ordered body].
  // All rhs share the traversal and the M2L derivative tensors.
  // When `timers` is non-null, real per-thread operation times accumulate
  // into it (counts are per application, P2M/L2P per covered body).
  // When `sdc` is non-null, the armed expansion detectors (and the injected
  // kSdcExpansion corruption, if pending) run between the upward and
  // downward passes; a detected corruption is repaired by re-running just
  // that subtree's upward pass and verified against the stored checksum.
  void evaluate(const AdaptiveOctree& tree, const InteractionLists& lists,
                std::span<const std::vector<double>> charges,
                std::vector<std::vector<PointValue>>& out,
                OpTimers* timers = nullptr,
                const SdcHooks* sdc = nullptr) const;

 private:
  FmmConfig config_;
  ExpansionContext ctx_;
};

// What every solve hands back besides its field: the machine-model
// observation the balancer digests, plus what observability emission needs.
// The engine's problems return exactly this slice of their typed results.
struct SolveOutcome {
  ObservedStepTimes times;
  GpuRunResult gpu;
  SolveStats stats;
  // Real wall-clock per-op times (populated when collect_real_timings).
  std::shared_ptr<OpTimers> real_timings;
  // SDC activity inside this solve (injections, detections, repairs).
  SdcReport sdc;
  // Executed overlap schedule (null unless the node's overlap executor ran);
  // purely observational -- the numerics never depend on it.
  std::shared_ptr<const DagSchedule> dag;
};

// The solve pipeline both kernels share: list lookup, the far field over the
// kernel's harmonic right-hand sides, the near field on the simulated GPUs,
// and the machine model's virtual times. A derived solver only prepares the
// tree-ordered inputs and assembles its field from the two halves.
template <class Kernel>
class FmmSolver {
 public:
  NodeSimulator& node() { return node_; }
  const NodeSimulator& node() const { return node_; }

  // Share an external interaction-list cache (e.g. with the load balancer so
  // its dry runs and the next solve reuse one traversal); nullptr returns to
  // the solver-owned cache. The pointee must outlive the solver's use.
  void set_list_cache(InteractionListCache* cache) { external_cache_ = cache; }
  const InteractionListCache& list_cache() const {
    return external_cache_ ? *external_cache_ : own_cache_;
  }

 protected:
  using Source = typename Kernel::Source;
  using Accum = typename Kernel::Accum;

  FmmSolver(const FmmConfig& config, NodeSimulator node, Kernel kernel);

  // Runs the pipeline on tree-ordered inputs: `rhs` are the far field's
  // charge vectors (one M2L pass each), `sources` the near field's. Fills
  // `out`, the far field per rhs and body in `far`, and the near field per
  // body in `near`.
  void run(const AdaptiveOctree& tree, std::span<const std::vector<double>> rhs,
           std::span<const Source> sources, SolveOutcome& out,
           std::vector<std::vector<PointValue>>& far,
           std::vector<Accum>& near) const;

 private:
  HarmonicFarField far_;
  NodeSimulator node_;
  Kernel kernel_;
  mutable InteractionListCache own_cache_;
  InteractionListCache* external_cache_ = nullptr;
};

extern template class FmmSolver<GravityKernel>;
extern template class FmmSolver<StokesletKernel>;

struct GravityResult : SolveOutcome {
  std::vector<double> potential;  // phi = sum q/r, original body order
  std::vector<Vec3> gradient;     // grad phi; acceleration = G * gradient
};

class GravitySolver : public FmmSolver<GravityKernel> {
 public:
  GravitySolver(const FmmConfig& config, NodeSimulator node,
                GravityKernel kernel = GravityKernel{});

  // Solve on a prepared tree. `positions` / `charges` are in ORIGINAL body
  // order; the tree must have been built (or rebinned) from `positions`.
  GravityResult solve(const AdaptiveOctree& tree,
                      std::span<const Vec3> positions,
                      std::span<const double> charges) const;
};

struct StokesletResult : SolveOutcome {
  std::vector<Vec3> velocity;  // original body order, before 1/(8 pi mu)
};

class StokesletSolver : public FmmSolver<StokesletKernel> {
 public:
  StokesletSolver(const FmmConfig& config, NodeSimulator node, double epsilon);

  StokesletResult solve(const AdaptiveOctree& tree,
                        std::span<const Vec3> positions,
                        std::span<const Vec3> forces) const;
};

SolveStats make_stats(const AdaptiveOctree& tree,
                      const InteractionLists& lists);

}  // namespace afmm
