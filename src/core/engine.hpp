// Problem-generic simulation engine.
//
// Every time-dependent workload in this repo steps the same way: move the
// bodies, rebin them into the adaptive tree, hand the previous step's
// observed times to the load balancer (which may rebuild at a new S,
// Enforce_S, or fine-tune), advance the deterministic fault schedule against
// the machine health registry, solve the FMM on the possibly-modified tree,
// and integrate. SimulationEngine owns that loop once -- plus everything
// that hangs off it:
//
//   * StepRecord assembly, including the cost-model predictions the
//     capability-shift detector judges and the health/fault bookkeeping;
//   * the resilience wrapper (state/): watchdog budgets per step, periodic
//     invariant audits, checkpoint cadence, and rollback to the last good
//     snapshot + tree rebuild + re-Search on a failed audit or tripped
//     watchdog;
//   * deferred observability emission (obs/): the step's raw observations
//     are parked in a PendingObs until the resilience flags are folded into
//     the record, then emitted to the trace recorder / metrics registry.
//
// What the engine does NOT know is the physics. That lives in a Problem
// policy (core/problems.hpp) supplying:
//
//   static constexpr SimKind kKind;        // checkpoint tag
//   static constexpr const char* kName;    // for error messages
//   NodeSimulator& node();                 // the simulated machine
//   void set_list_cache(InteractionListCache*);
//   std::span<const Vec3> positions() const;
//   std::size_t size() const;
//   SolveOutcome initial_solve(const AdaptiveOctree&);  // prime state, no move
//   void pre_solve(double dt);             // move bodies before rebin
//   SolveOutcome solve(const AdaptiveOctree&);          // stash typed result
//   void post_solve(double dt);            // integrate the stashed result
//   void save_state(SimCheckpoint&) const; // problem-owned checkpoint payload
//   void load_state(const SimCheckpoint&);
//   void audit_state(const AuditConfig&, AuditReport&) const;
//
// GravityProblem does kick-drift-kick leapfrog with masses; StokesProblem
// evaluates a ForceModel and integrates the induced velocity. Both problem
// classes therefore get the identical balancing / resilience / observability
// stack -- the paper validates the one balancing loop on exactly these two
// workloads.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "balance/load_balancer.hpp"
#include "core/fmm_solver.hpp"
#include "faults/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "state/checkpoint.hpp"

namespace afmm {

// Observability policy (obs/): step tracing and metric sampling. Both sinks
// are strictly read-only over the simulation, so enabling them leaves the
// trajectory bit-identical to an observability-off run; when both are off no
// recorder is even allocated (null-sink, zero overhead).
struct ObsConfig {
  bool trace = false;    // record Chrome-trace events (virtual-time tracks)
  bool metrics = false;  // sample the metrics registry once per step
  // Mirror REAL per-operation wall times (requires fmm.collect_real_timings)
  // onto the wall-time trace process. Off by default because wall clocks are
  // nondeterministic and would break byte-identical trace comparisons.
  bool wall_ops = false;
  bool enabled() const { return trace || metrics; }
};

// The problem-independent core every simulation config shares. Concrete
// configs (SimulationConfig, StokesSimulationConfig) extend it with their
// physics parameters.
struct EngineConfig {
  FmmConfig fmm;
  TreeConfig tree;               // leaf_capacity is overridden by the balancer
  LoadBalancerConfig balancer;
  double dt = 1e-3;
  // Deterministic fault schedule replayed against the node's health registry
  // (empty by default: a perfectly healthy run).
  FaultSchedule faults;
  std::uint64_t fault_seed = 0x5eed;
  // Checkpoint / audit / watchdog policy (everything off by default).
  ResilienceConfig resilience;
  // Step tracing + metrics sampling (everything off by default).
  ObsConfig obs;
};

struct StepRecord {
  int step = 0;
  double compute_seconds = 0.0;  // max(CPU, GPU), the paper's Compute Time
  double cpu_seconds = 0.0;
  double gpu_seconds = 0.0;
  double lb_seconds = 0.0;       // balancing + maintenance cost this step
  double total_seconds() const { return compute_seconds + lb_seconds; }
  int S = 0;
  LbState state = LbState::kSearch;
  bool rebuilt = false;
  int enforce_ops = 0;
  int fgo_ops = 0;
  SolveStats stats;
  // Fault / degradation bookkeeping (chaos benches and recovery plots).
  int faults_fired = 0;          // injector events applied before this solve
  int alive_gpus = 0;
  double gpu_capability = 0.0;   // sum of per-GPU health scales
  int effective_cores = 0;
  bool capability_shift = false; // balancer reset + re-entered Search
  bool cpu_fallback = false;     // near field ran on the CPU (no GPUs alive)
  int transfer_retries = 0;
  // Cost-model predictions for THIS step's operation counts, made from the
  // coefficients as they stood before this step's times were observed (the
  // same quantities the capability-shift detector judges). Zero until the
  // model has observations.
  double predicted_far_seconds = 0.0;
  double predicted_near_seconds = 0.0;
  // Resilience bookkeeping (all false/-1 when resilience is disabled).
  bool audited = false;          // invariant audit ran after this step
  bool audit_failed = false;     // ... and found violations
  bool watchdog_tripped = false; // step exceeded a watchdog budget
  bool rolled_back = false;      // recovered from the last good checkpoint
  int restored_step = -1;        // step the rollback restored to
  bool checkpointed = false;     // a snapshot was taken after this step
  // Silent-data-corruption bookkeeping (sdc/): events injected this step,
  // detections across all ABFT surfaces (solver checksums + engine audits),
  // localized repairs that verified bit-exact, and corruptions no localized
  // rung could fix (these escalate to rollback when enabled).
  int sdc_injected = 0;
  int sdc_detected = 0;
  int sdc_repaired = 0;
  int sdc_unrepaired = 0;
  bool sdc_escalated = false;    // repair ladder exhausted -> rollback path
};

// What every Problem's solve hands back to the engine: the machine-model
// observation the balancer digests, plus what observability emission needs.
// The typed numerical result (gradient, velocity, ...) stays inside the
// Problem between solve() and post_solve().
struct SolveOutcome {
  ObservedStepTimes times;
  GpuRunResult gpu;
  SolveStats stats;
  std::shared_ptr<OpTimers> real_timings;
  // SDC activity inside the solve (injections, ABFT detections, repairs).
  SdcReport sdc;
  // Executed overlap schedule (null unless the overlap executor ran).
  std::shared_ptr<const DagSchedule> dag;
};

// Tag selecting the deferred-initialization constructor: the engine is
// wired but its tree build / priming solve / resilience / obs setup waits
// for prepare() (or the first step_once()). The multi-tenant service admits
// hundreds of sessions this way so admission stays O(1) and the expensive
// prepare happens on the session's first scheduled step.
struct DeferredInit {};

template <class Problem>
class SimulationEngine {
 public:
  // Fresh run: builds the tree from the problem's bodies at the balancer's
  // initial S and primes the state with one solve (i.e. prepare() runs
  // inside the constructor).
  SimulationEngine(const EngineConfig& config, Problem problem);

  // Fresh run, lazily: construction only wires the components; prepare()
  // runs on the first step_once() (or explicitly). A deferred engine that is
  // then stepped produces the bit-identical trajectory of an eager one.
  SimulationEngine(DeferredInit, const EngineConfig& config, Problem problem);

  // Resume from a checkpoint: the engine continues the EXACT trajectory the
  // checkpointed run would have produced (config and machine must match the
  // original run's). Throws std::invalid_argument on a kind mismatch. A
  // restored engine is already prepared.
  SimulationEngine(const EngineConfig& config, Problem problem,
                   const SimCheckpoint& ckpt);

  // One-time expensive setup: tree build at the balancer's initial S, the
  // priming solve, resilience (watchdog/store/first snapshot) and obs sinks.
  // Idempotent; a no-op on prepared (eager or restored) engines.
  void prepare();
  bool prepared() const { return prepared_; }

  // The resumable seam: prepare() if needed, then advance exactly one time
  // step and return its record. With resilience enabled the step is
  // watchdog-guarded, audited on the configured cadence, and checkpointed /
  // rolled back as needed. Everything else -- run(), the service scheduler,
  // benches -- is a loop over this.
  StepRecord step_once();

  // Run `n` steps, collecting records: a thin loop over step_once().
  std::vector<StepRecord> run(int n);

  // Cost-model forecast of the NEXT step's seconds, from the operation
  // counts of the last observed step (what the DRR scheduler charges
  // quota against). Falls back to the last observed step time before the
  // model has digested enough observations, and to a nominal constant
  // before the engine is prepared.
  double predicted_step_seconds() const;

  // Route observability to caller-owned sinks instead of engine-owned ones,
  // labeling every track/metric with `tenant` (see obs/step_emitter.hpp).
  // The sinks must outlive the engine. The service uses this so a session's
  // trace/metrics survive engine eviction and continue seamlessly after
  // restore. Must be called before the first step taken on THIS object
  // (std::logic_error otherwise); `tenant` shares the store-owner charset
  // ([A-Za-z0-9.-], std::invalid_argument otherwise).
  void set_external_obs(TraceRecorder* trace, MetricsRegistry* metrics,
                        std::string tenant = "");
  const std::string& tenant() const { return tenant_; }

  // Reposition the virtual clock (trace timeline only -- never physics).
  // The service sets this to the shared machine clock's occupancy slot
  // before each scheduled step, so concurrent tenants' timelines interleave
  // on one timeline instead of each starting at zero; it is also how a
  // restored session resumes its own timeline where eviction cut it.
  void set_virtual_now(double t) { virtual_now_ = t; }

  Problem& problem() { return problem_; }
  const Problem& problem() const { return problem_; }
  const AdaptiveOctree& tree() const { return tree_; }
  const LoadBalancer& balancer() const { return balancer_; }
  const FaultInjector& fault_injector() const { return injector_; }
  // Mutable machine health, for tests and benches that poke faults directly.
  NodeSimulator& node() { return problem_.node(); }
  int steps_taken() const { return step_count_; }

  // The interaction-list cache shared by the solver and the balancer: one
  // traversal per structure change, zero when the structure is stable. The
  // mutable overload exists for read-only consumers that must go through
  // get() (it memoizes) -- e.g. the cluster layer's halo planner.
  const InteractionListCache& list_cache() const { return list_cache_; }
  InteractionListCache& list_cache() { return list_cache_; }

  // Observability sinks (null when the corresponding ObsConfig flag is off).
  TraceRecorder* trace() { return trace_.get(); }
  const TraceRecorder* trace() const { return trace_.get(); }
  MetricsRegistry* metrics() { return metrics_.get(); }
  const MetricsRegistry* metrics() const { return metrics_.get(); }
  // Accumulated virtual (simulated) seconds of all steps taken; advances
  // only while observability is enabled (it exists for the trace timeline).
  double virtual_now() const { return virtual_now_; }

  // --- checkpoint / restore / recovery -------------------------------------

  // Complete snapshot of the current state (see state/checkpoint.hpp).
  SimCheckpoint checkpoint() const;
  // Adopt a snapshot wholesale (same config/machine as the run that took it).
  void restore(const SimCheckpoint& ckpt);

  // The full invariant audit the resilience loop runs (also callable
  // directly, e.g. by tests and benches).
  AuditReport run_audit() const;

  // Rollbacks performed so far, and the on-disk store when one is configured.
  int rollbacks() const { return rollbacks_; }
  // Rollbacks attributable to the SDC repair ladder escalating (subset of
  // rollbacks(); the acceptance gates assert this stays 0 when localized
  // repair suffices).
  int sdc_rollbacks() const { return sdc_rollbacks_; }
  const CheckpointStore* store() const { return store_ ? &*store_ : nullptr; }

  // Chaos hook: silent structural corruption for auditor/recovery tests.
  void corrupt_tree_for_test();

 private:
  void initial_solve();
  void init_resilience();
  void init_obs();
  StepRecord step_guarded();
  StepRecord step_core();
  // Observability sinks actually in effect: external when attached, else own.
  TraceRecorder* active_trace() const {
    return ext_trace_ ? ext_trace_ : trace_.get();
  }
  MetricsRegistry* active_metrics() const {
    return ext_metrics_ ? ext_metrics_ : metrics_.get();
  }
  void roll_back(StepRecord& rec);
  // Emits the pending step observation (trace events + metric rows) and
  // advances the virtual clock; no-op when observability is off.
  void finish_step_obs(const StepRecord& rec);

  EngineConfig config_;
  InteractionListCache list_cache_;
  Problem problem_;
  LoadBalancer balancer_;
  FaultInjector injector_;
  AdaptiveOctree tree_;
  std::optional<ObservedStepTimes> last_observed_;
  int step_count_ = 0;
  bool prepared_ = false;         // prepare() has run (or restore-ctor)
  bool first_step_done_ = false;  // a step was taken on THIS object

  // Resilience state (inert while config_.resilience is disabled).
  StepWatchdog watchdog_;
  // Holds this engine's auto-assigned filename namespace in the checkpoint
  // dir when resilience.checkpoint_owner was left empty (satellite of the
  // shared-dir collision fix; see CheckpointOwnerClaim).
  CheckpointOwnerClaim owner_claim_;
  std::optional<CheckpointStore> store_;
  std::optional<SimCheckpoint> last_good_;
  int rollbacks_ = 0;
  int sdc_rollbacks_ = 0;

  // Observability state (null / unused while config_.obs is disabled). The
  // pending struct carries what step_core saw, so emission can run at the
  // very end of step_once() with the resilience flags already folded into the
  // record.
  struct PendingObs {
    ObservedStepTimes times;
    GpuRunResult gpu;
    std::vector<FaultEvent> faults;
    std::shared_ptr<OpTimers> wall;
    double rebin_seconds = 0.0;
    std::shared_ptr<const DagSchedule> dag;
  };
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<MetricsRegistry> metrics_;
  TraceRecorder* ext_trace_ = nullptr;      // caller-owned, when attached
  MetricsRegistry* ext_metrics_ = nullptr;  // caller-owned, when attached
  std::string tenant_;                      // obs label; empty = untagged
  std::optional<PendingObs> pending_obs_;
  double virtual_now_ = 0.0;
};

}  // namespace afmm
