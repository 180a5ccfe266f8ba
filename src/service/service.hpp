// Deterministic multi-tenant simulation service: many sessions, one machine.
//
// SimulationService admits named sessions (each a type-erased SessionEngine,
// see service/session.hpp), queues per-session step demand, and multiplexes
// the engines over ONE shared machine timeline with deficit-round-robin
// scheduling:
//
//   * Every scheduling round, each session with pending demand earns
//     `quantum_seconds * priority` of deficit (virtual machine-seconds).
//   * A session may start a step only while its deficit covers the cost
//     model's forecast for that step (SessionEngine::predicted_step_seconds),
//     and each executed step is charged at its ACTUAL simulated cost. A
//     heavy Plummer session therefore banks deficit across rounds for its
//     expensive steps while light tenants keep streaming theirs -- nobody
//     starves and nobody exceeds their budget.
//   * When a session's queue empties its deficit resets (classic DRR: you
//     cannot bank idle time), and after `idle_evict_rounds` demandless
//     rounds the engine is EVICTED: snapshotted to the service's
//     CheckpointStore under the session's own filename namespace and
//     destroyed. The next request transparently restores it, and the
//     restored engine continues the bit-identical trajectory.
//
// Scheduling is deterministic: sessions are visited in admission order, the
// shared clock hands out occupancy intervals in execution order, and nothing
// the scheduler does feeds back into any engine's physics. Running a session
// alongside a hundred others -- including across evict/restore cycles --
// yields byte-for-byte the trajectory of running it alone.
//
// Observability: one TraceRecorder spans all tenants (per-tenant "<name>/*"
// tracks via the obs tenant dimension, plus a "service" track of admit /
// evict / restore instants on the shared timeline); each session owns a
// MetricsRegistry (rows named "tenant.<name>.*") that deliberately SURVIVES
// eviction, so counters and histograms continue seamlessly after restore;
// and the service samples aggregate "service.*" metrics once per round.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "machine/shared_clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/session.hpp"
#include "state/checkpoint.hpp"

namespace afmm {

struct ServiceConfig {
  // Deficit earned per round by a priority-1 session, in virtual seconds.
  double quantum_seconds = 1e-3;
  // Demandless rounds before a prepared engine is evicted to disk.
  // 0 disables idle eviction.
  int idle_evict_rounds = 2;
  // Soft cap on resident (prepared) engines; exceeding it evicts the
  // longest-idle demandless sessions first. 0 = unlimited.
  int max_resident = 0;
  // Eviction spill directory; empty disables eviction entirely (engines
  // stay resident). Each session namespaces its snapshots by its own name.
  std::string checkpoint_dir;
  // Snapshots retained per session in the spill store.
  int checkpoint_keep = 2;
  // Record trace events / sample metrics (a disabled service is a null
  // sink, same contract as ObsConfig).
  bool trace = false;
  bool metrics = false;
};

struct SessionOptions {
  int priority = 1;  // DRR weight (>= 1; clamped)
};

// One executed step, as the scheduler saw it: the audit trail the
// throughput bench recomputes quota enforcement from.
struct ExecutedStep {
  int round = 0;
  std::string session;
  int step = 0;              // engine step index (monotone per session)
  double start = 0.0;        // shared-clock occupancy start
  double seconds = 0.0;      // actual charged cost (rec.total_seconds())
  double predicted = 0.0;    // forecast the grant was judged against
  double deficit_before = 0.0;  // deficit at grant time (>= predicted)
  bool restored = false;     // this step forced an evict->restore
};

class SimulationService {
 public:
  explicit SimulationService(ServiceConfig config);

  // Admit a named session (O(1): the engine is created deferred; its tree
  // build + priming solve run on its first scheduled step). Names share the
  // checkpoint-owner charset [A-Za-z0-9.-] and must be unique among live
  // sessions (std::invalid_argument otherwise).
  void admit(const std::string& name, SessionFactory factory,
             SessionOptions opts = {});

  // Queue `steps` more steps of demand for the session.
  void request_steps(const std::string& name, int steps);

  // Depart: drop the session's engine and pending demand for good. Its
  // metric rows, executed-step history and clock occupancy remain for
  // end-of-run reporting.
  void remove(const std::string& name);

  // One DRR scheduling round over all sessions with demand; returns the
  // number of steps executed (0 when fully idle -- the shared clock then
  // records an idle gap).
  int run_round();

  // Rounds until no session has demand; returns steps executed. Throws
  // std::runtime_error if `max_rounds` elapse with demand still pending
  // (misconfigured quantum, e.g. zero).
  int run_until_idle(int max_rounds = 1 << 20);

  // Force an eviction now (no-op unless resident + prepared + spill dir
  // configured). Returns whether an eviction happened.
  bool evict(const std::string& name);

  // --- introspection -------------------------------------------------------
  bool has_session(const std::string& name) const;
  bool resident(const std::string& name) const;   // engine in memory + prepared
  bool evicted(const std::string& name) const;    // spilled, awaiting restore
  int pending_steps(const std::string& name) const;
  int steps_run(const std::string& name) const;
  // Physical-state fingerprint of a live session (transparently restores an
  // evicted one first -- the service's read path).
  std::uint64_t state_fingerprint(const std::string& name);
  // StepRecords of every step the service ran for this session.
  const std::vector<StepRecord>& records(const std::string& name) const;
  const MetricsRegistry* session_metrics(const std::string& name) const;

  const std::vector<ExecutedStep>& history() const { return history_; }
  const SharedMachineClock& clock() const { return clock_; }
  const TraceRecorder* trace() const { return trace_.get(); }
  int rounds() const { return rounds_; }
  int evictions() const { return evictions_; }
  int restores() const { return restores_; }
  // Steps granted with deficit < predicted cost. Stays 0 by construction;
  // exists so the bench can gate on the scheduler's own books.
  int quota_violations() const { return quota_violations_; }
  std::size_t sessions() const { return order_.size(); }

  // Merged long-form metrics CSV: the service.* aggregate rows first, then
  // each session's tenant-prefixed rows in admission order. Same
  // step,metric,value schema as MetricsRegistry::write_csv.
  bool write_merged_metrics_csv(const std::string& path) const;

 private:
  struct Session {
    SessionFactory factory;
    SessionOptions opts;
    std::unique_ptr<SessionEngine> engine;  // null once evicted or departed
    std::unique_ptr<MetricsRegistry> metrics;  // survives eviction
    std::optional<CheckpointStore> store;      // lazily opened spill store
    int demand = 0;
    double deficit = 0.0;
    // Forecast cached across eviction, so the scheduler can tell whether a
    // spilled session's deficit affords a step WITHOUT restoring it first
    // (deterministically equal to what the restored engine recomputes).
    double cached_predicted = 1e-3;
    int idle_rounds = 0;
    int steps_run = 0;
    int ran_this_round = 0;
    bool evicted = false;
    // Step of the snapshot the last eviction wrote; the restore loads
    // exactly this file, never a higher step left in the directory by an
    // earlier run.
    int evicted_step = 0;
    bool departed = false;
    std::vector<StepRecord> records;
  };

  Session& at(const std::string& name);
  const Session& at(const std::string& name) const;
  void attach_obs(const std::string& name, Session& s);
  void ensure_resident(const std::string& name, Session& s, bool* restored);
  void do_evict(const std::string& name, Session& s);
  void service_instant(const std::string& what, const std::string& session,
                       double step = -1.0);
  int resident_count() const;
  void sample_service_metrics(int round, int executed);

  ServiceConfig config_;
  std::map<std::string, Session> sessions_;
  std::vector<std::string> order_;  // admission order (scheduling order)
  SharedMachineClock clock_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::vector<ExecutedStep> history_;
  int rounds_ = 0;
  int evictions_ = 0;
  int restores_ = 0;
  int quota_violations_ = 0;
};

}  // namespace afmm
