// The paper's dynamic load balancer (Sections V-VII).
//
// States (Section V): the balancer is always in exactly one of
//   Search       -- binary search for a global S; tree rebuilt every step
//   Incremental  -- S nudged by one increment per step (with rebuild)
//   Observation  -- steady state; act only when the compute time drifts more
//                   than kBand (5%) above the best time seen
//
// Enforcement mechanisms (Section VI):
//   Enforce_S            -- re-establish the global S over the whole tree
//   FineGrainedOptimize  -- batched local Collapse / PushDown, driven by the
//                           cost model's predictions, applied until the
//                           predicted compute time stops improving
//
// Workflow (Section VII.B): Search -> Incremental when |CPU-GPU| <= gap;
// Incremental -> Observation when the dominant device flips (running
// FineGrainedOptimize first if the gap is still large); Observation ->
// Incremental when enforcement + fine tuning cannot bring the predicted time
// back within the band.
//
// Degradation awareness (beyond the paper): in Observation the balancer
// compares each side's observed time against the cost model's own
// prediction for the SAME operation counts. Workload drift changes the
// counts, so prediction tracks it; a capability shift (GPU died, clock
// throttled, cores preempted) changes the time-per-operation itself, which
// the counts cannot explain. When the relative divergence exceeds
// kShiftRelative, the balancer declares the machine changed: the poisoned
// EWMA coefficients are reset and the state returns to Search to re-find S
// for the machine that actually exists, instead of letting
// FineGrainedOptimize chase an optimum computed from dead hardware. The
// direct work is balanced against wherever it currently runs -- surviving
// GPUs, or the CPU fallback when every GPU is lost.
//
// The three strategies of Section IX.A are selected with LbStrategy:
//   kStatic      -- strategy 1: initial search only, never touch the tree
//   kEnforceOnly -- strategy 2: initial search, then Enforce_S on >5% drift
//   kFull        -- strategy 3: everything above
#pragma once

#include <span>
#include <string>

#include "balance/cost_model.hpp"
#include "machine/machine.hpp"
#include "octree/list_cache.hpp"
#include "octree/octree.hpp"
#include "octree/traversal.hpp"

namespace afmm {

class TraceRecorder;  // obs/trace.hpp; attached via set_trace()

enum class LbState { kSearch, kIncremental, kObservation };
enum class LbStrategy { kStatic, kEnforceOnly, kFull };

const char* to_string(LbState s);
const char* to_string(LbStrategy s);

struct LoadBalancerConfig {
  LbStrategy strategy = LbStrategy::kFull;
  int initial_S = 64;
  int min_S = 4;
  int max_S = 4096;
  // Fig. 10's ablation: the full strategy with FineGrainedOptimize disabled.
  bool enable_fgo = true;
  // Objective selection under overlap execution (DESIGN.md section 14). When
  // true (default) the balancer optimizes the step time that actually
  // elapsed -- the event-driven DAG makespan when the overlap executor ran,
  // the serialized max(CPU, GPU) otherwise -- and prices hypothetical trees
  // with the matching prediction. When false it always scores the serialized
  // max(CPU, GPU), even while the executor overlaps (the bench's ablation
  // arm: converges to the barrier-model S, executes under overlap).
  bool overlap_aware = true;
};

struct LbStepReport {
  LbState state_before = LbState::kSearch;
  LbState state_after = LbState::kSearch;
  int S = 0;
  bool rebuilt = false;
  int enforce_ops = 0;
  int fgo_ops = 0;
  double lb_seconds = 0.0;       // virtual cost of all balancing work
  double predicted_compute = 0.0;
  double best_compute = 0.0;
  // The machine's capability shifted this step: coefficients were reset and
  // the balancer re-entered Search for the surviving hardware.
  bool capability_shift = false;
};

// The balancer's mutable state besides its cost model. LoadBalancerSnapshot
// adds the model (checkpoint/restore): restoring it onto a balancer
// constructed with the same config replays the identical Search /
// Incremental / Observation trajectory the snapshot interrupted.
struct LoadBalancerState {
  LbState state = LbState::kSearch;
  int S = 0;

  // Search state: bracket on S (log-space bisection).
  int search_lo = 0;
  int search_hi = 0;
  int search_steps = 0;

  // Incremental state.
  int last_dominant = 0;  // 0 unknown, +1 CPU-dominant, -1 GPU-dominant

  // Observation state.
  double best_compute = -1.0;
  bool reset_best_next = false;  // strategy 2: re-baseline after Enforce_S

  // Capability-shift state: last health epoch seen, and how many more
  // sub-threshold Observation steps may pass before a pending epoch change
  // is considered absorbed without a shift.
  std::uint64_t last_epoch = 0;
  int epoch_pending = 0;
};

struct LoadBalancerSnapshot : LoadBalancerState {
  CostModelSnapshot model;
};

class LoadBalancer {
 public:
  // Search ends when |CPU - GPU| <= kGapRelative * compute. The paper uses an
  // absolute 0.15 s on ~1 s steps; the relative form is scale-free, so small
  // problems balance equally tightly.
  static constexpr double kGapRelative = 0.15;
  static constexpr int kMaxSearchSteps = 15;
  static constexpr double kBand = 0.05;  // 5% tolerance around the best time
  static constexpr int kFgoBatch = 8;    // nodes modified per FGO batch
  static constexpr int kFgoMaxBatches = 64;
  static constexpr double kSmoothing = 0.5;  // cost model EWMA
  // Capability-shift detection: relative observed-vs-predicted divergence
  // (symmetric, in [0, 1]) above which the machine itself -- not the
  // workload -- is assumed to have changed. Must sit well above the 5% band
  // so ordinary noise walks the Enforce_S/FGO path, and below the ~0.5
  // divergence losing one of two GPUs produces.
  static constexpr double kShiftRelative = 0.3;
  static constexpr int kShiftMinObservations = 3;  // let the EWMA settle

  LoadBalancer(const LoadBalancerConfig& config, TraversalConfig traversal);

  // Digest the observed times of the step just solved and prepare the tree
  // for the next step. `positions` must match the tree's bodies (already
  // rebinned). Returns what was done and its virtual cost.
  LbStepReport post_step(AdaptiveOctree& tree,
                         std::span<const Vec3> positions,
                         const ObservedStepTimes& observed,
                         const NodeSimulator& node);

  int current_S() const { return st_.S; }
  LbState state() const { return st_.state; }
  const CostModel& cost_model() const { return model_; }

  LoadBalancerSnapshot snapshot() const;
  void restore(const LoadBalancerSnapshot& snap);

  // Drop every learned coefficient and restart the S search from scratch.
  // This is the capability-shift reaction (the machine changed under us) and
  // equally the rollback recovery path: after restoring a checkpoint the
  // simulation calls this so the balancer re-learns the machine instead of
  // trusting coefficients that may predate the corruption.
  void reenter_search();

  // Share an interaction-list cache (typically the solver's) so dry runs
  // reuse the last solve's traversal and vice versa; nullptr (the default)
  // builds lists fresh on every dry run.
  void set_list_cache(InteractionListCache* cache) { cache_ = cache; }

  // Attach a trace recorder (obs/): state transitions, search-bracket moves,
  // FineGrainedOptimize outcomes and capability shifts become instant events
  // on the "balancer" track, stamped from `*virtual_clock` (the owning
  // simulation's virtual time). Either pointer null disables emission; the
  // balancer never writes the clock.
  void set_trace(TraceRecorder* trace, const double* virtual_clock) {
    trace_ = trace;
    clock_ = virtual_clock;
  }

 private:
  // The step time the balancer optimizes (see config.overlap_aware).
  double observed_compute(const ObservedStepTimes& t) const {
    return config_.overlap_aware ? t.compute_seconds()
                                 : t.serialized_compute_seconds();
  }
  // Prediction matching observed_compute: overlap-aware only while the
  // executor is actually overlapping (overlap_live_), so predictions and
  // observations are always the same quantity.
  double predict_compute_live(const OpCounts& m, int cores) const {
    return overlap_live_ ? model_.predict_compute_overlap(m, cores)
                         : model_.predict_compute(m, cores);
  }
  bool gap_ok(const ObservedStepTimes& t) const;
  // True when observed-vs-predicted divergence says the machine changed.
  bool capability_shift(const ObservedStepTimes& observed, int cores) const;
  void rebuild(AdaptiveOctree& tree, std::span<const Vec3> positions,
               LbStepReport& r, const NodeSimulator& node);
  OpCounts dry_run(const AdaptiveOctree& tree) const;

  // Returns the number of collapse/push_down operations applied.
  int fine_grained_optimize(AdaptiveOctree& tree, const NodeSimulator& node,
                            LbStepReport& r);

  void step_search(AdaptiveOctree& tree, std::span<const Vec3> positions,
                   const ObservedStepTimes& observed, const NodeSimulator& node,
                   LbStepReport& r);
  void step_incremental(AdaptiveOctree& tree, std::span<const Vec3> positions,
                        const ObservedStepTimes& observed,
                        const NodeSimulator& node, LbStepReport& r);
  void step_observation(AdaptiveOctree& tree,
                        const ObservedStepTimes& observed,
                        const NodeSimulator& node, LbStepReport& r);

  void trace_step(const LbStepReport& r) const;

  LoadBalancerConfig config_;
  TraversalConfig traversal_;
  CostModel model_;
  InteractionListCache* cache_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  const double* clock_ = nullptr;
  LoadBalancerState st_;

  // True while the overlap executor is running steps (derived per post_step
  // from the observation, gated on config.overlap_aware; not checkpointed).
  bool overlap_live_ = false;
};

}  // namespace afmm
